"""Every module-level private name, every public function or class, and every
public method of a class in ``src`` is used somewhere in ``src`` besides its own
definition, so a helper whose last caller went away fails here; and every name
a module of ``src`` or ``tests`` imports is read in that module."""
import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "hardylab"


# public names nothing in src calls yet, kept while an acceptance criterion runs
# them: the p = inf bounded-dual route (ROADMAP item 6)
KEPT_FOR_LATER = {"dual_expectation_bound_infty"}


def _definitions(tree: ast.Module):
    """(name, defining node) for every module-level function, class or assignment."""
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
            yield name, node


def _methods(tree: ast.Module):
    """(name, defining node) for every method of every module-level class."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, node


def _reads(node: ast.AST) -> list:
    """Name loads and attribute names below ``node``, as (name, ast node) pairs."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.append((sub.id, sub))
        elif isinstance(sub, ast.Attribute):
            out.append((sub.attr, sub))
    return out


def _unused_in_src(wanted, definitions=_definitions) -> list:
    """Definitions (module-level unless ``definitions`` says otherwise) for which
    ``wanted(name, node)`` holds and that nothing in ``src`` reads outside the
    definition itself."""
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    assert trees
    reads = [pair for tree in trees.values() for pair in _reads(tree)]
    unused = []
    for fname, tree in trees.items():
        for name, node in definitions(tree):
            if not wanted(name, node):
                continue
            inside = {id(sub) for sub in ast.walk(node)}
            if not any(n == name and id(sub) not in inside for n, sub in reads):
                unused.append(f"{fname}:{node.lineno} {name}")
    return unused


def test_every_private_module_name_is_used():
    unused = _unused_in_src(lambda name, node: name.startswith("_") and not name.startswith("__"))
    assert not unused, f"private module-level names nothing in src uses: {unused}"


def _function_or_class(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def test_every_public_function_and_class_is_used():
    # the package's re-exports are imports, not reads, so a name only the
    # tests call fails here; the CLI counts as a caller
    unused = _unused_in_src(lambda name, node: not name.startswith("_")
                            and name not in KEPT_FOR_LATER and _function_or_class(node))
    assert not unused, f"public functions and classes nothing in src uses: {unused}"


def test_every_public_method_is_used():
    # a method counts as used when any attribute of its name is read in src
    unused = _unused_in_src(lambda name, node: not name.startswith("_"), _methods)
    assert not unused, f"public methods nothing in src uses: {unused}"


def test_kept_for_later_names_are_defined_and_unread():
    # the exemption list cannot outlive its entries: a name that was deleted,
    # that src has started to read, or that no acceptance criterion calls any
    # more must leave it
    unused = _unused_in_src(lambda name, node: name in KEPT_FOR_LATER and _function_or_class(node))
    assert {entry.split()[-1] for entry in unused} == KEPT_FOR_LATER
    tree = ast.parse((TESTS / "test_acceptance.py").read_text())
    called = {name for call in ast.walk(tree) if isinstance(call, ast.Call)
              for name, _ in _reads(call.func)}
    assert KEPT_FOR_LATER <= called, KEPT_FOR_LATER - called


def _imported_names(tree: ast.Module):
    """(bound name, line) for every import in the module; ``__future__`` flags bind nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_imported_name_is_read():
    # the package's __init__ imports to re-export, so its names are read by callers
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(TESTS.glob("*.py"))
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        loads = {sub.id for sub in ast.walk(tree)
                 if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        unused += [f"{path.parent.name}/{path.name}:{line} {name}"
                   for name, line in _imported_names(tree) if name not in loads]
    assert not unused, f"imported names the module never reads: {unused}"
