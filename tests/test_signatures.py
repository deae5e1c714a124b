"""A DualSystem carries the point sequence it was built for and the kernel-norm
cache of its domain, so no function in ``src`` takes a PointSequence or a norm
cache next to a DualSystem."""
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


def _functions():
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{path.name}:{node.lineno} {node.name}", node


def test_no_function_takes_a_sequence_and_a_dual():
    both = []
    for where, node in _functions():
        seqs, duals = _annotated(node, "PointSequence"), _annotated(node, "DualSystem")
        if any(i != j for i in seqs for j in duals):
            both.append(where)
    assert not both, f"functions taking a PointSequence next to a DualSystem: {both}"


def test_no_function_takes_a_norm_cache_and_a_dual():
    both = []
    for where, node in _functions():
        a = node.args
        names = [arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs]
        if _annotated(node, "DualSystem") and ("norms" in names or _annotated(node, "NormCache")):
            both.append(where)
    assert not both, f"functions taking a norm cache next to a DualSystem: {both}"
