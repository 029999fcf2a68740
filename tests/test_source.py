from __future__ import annotations

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "cowordmap").glob("*.py"))
UNIQUE_RETURNS = {"return_counts", "return_inverse", "return_index"}


def plain_unique_calls(tree: ast.AST) -> list[int]:
    """Lines of ``np.unique(...)`` or ``numpy.unique(...)`` calls that ask for no counts, inverse or index."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "unique"
            and isinstance(node.func.value, ast.Name) and node.func.value.id in ("np", "numpy")
            and not UNIQUE_RETURNS & {k.arg for k in node.keywords}]


def test_plain_unique_calls_are_found():
    tree = ast.parse("np.unique(a)\nnp.unique(a, return_counts=True)\nnumpy.unique(a, axis=0)\n")
    assert plain_unique_calls(tree) == [1, 3]


def test_no_plain_np_unique_in_the_package():
    # a plain np.unique takes numpy's hash path: on 132,631 int64 keys it took
    # 28.7 ms against 1.3 ms for a sort and a mask of unequal neighbours, and
    # its first call in a process raised the peak RSS by 1.26-1.33 MB
    assert SOURCES
    found = [f"{path.name}:{line}" for path in SOURCES
             for line in plain_unique_calls(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, f"plain np.unique calls (sort and mask instead, as vocabulary does): {found}"
