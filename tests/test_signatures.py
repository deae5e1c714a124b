"""A DualSystem carries the point sequence it was built for, so no function
in ``src`` takes a PointSequence and a DualSystem as separate parameters."""
import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hardylab"


def _annotated(fn: ast.FunctionDef, name: str) -> set:
    """Indices of the parameters of ``fn`` whose annotation mentions ``name``."""
    a = fn.args
    params = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
    return {i for i, arg in enumerate(params)
            if arg.annotation is not None
            and re.search(rf"\b{name}\b", ast.unparse(arg.annotation))}


def test_no_function_takes_a_sequence_and_a_dual():
    files = sorted(SRC.glob("*.py"))
    assert files
    both = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            seqs, duals = _annotated(node, "PointSequence"), _annotated(node, "DualSystem")
            if any(i != j for i in seqs for j in duals):
                both.append(f"{path.name}:{node.lineno} {node.name}")
    assert not both, f"functions taking a PointSequence next to a DualSystem: {both}"
