"""Package-level checks: the public names and the stdlib-only rule."""

import ast
import pathlib
import sys

import freevol

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "freevol"


def test_every_public_name_resolves_once():
    assert len(freevol.__all__) == len(set(freevol.__all__))
    missing = [name for name in freevol.__all__ if not hasattr(freevol, name)]
    assert missing == []


def _imported_roots(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_library_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"freevol"}
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = [
        f"{path.name}:{line}: {root}"
        for path in files
        for line, root in _imported_roots(path)
        if root not in allowed
    ]
    assert outside == []
