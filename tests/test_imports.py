"""numpy is the package's only runtime dependency; mpmath, scipy and
hypothesis may serve the tests but never ``src``."""
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hardylab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "hardylab"}


def test_runtime_imports_are_stdlib_or_numpy():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert not outside, f"imports outside the standard library and numpy: {outside}"


def test_sign_engine_imports_only_errors_and_geometry():
    # ``signs`` holds the engine alone; the chain steps that use it live in
    # ``extension``, so it never needs ``sequences`` or ``extension``
    tree = ast.parse((SRC / "signs.py").read_text())
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            package.add(node.module or "")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hardylab"):
            package.add(node.module.split(".", 1)[-1])
        elif isinstance(node, ast.Import):
            package.update(a.name.split(".", 1)[-1] for a in node.names
                           if a.name.startswith("hardylab"))
    assert package <= {"errors", "geometry"}, f"signs imports {sorted(package)}"
