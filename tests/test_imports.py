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
