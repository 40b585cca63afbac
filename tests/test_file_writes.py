"""Only the one writer, ``experiments._write_files``, writes files.

Every module of the package is parsed, and each call of ``open``, of an
``.open`` method or of ``write_text`` / ``write_bytes`` is found with the
function it sits in. Reading goes through ``read_text`` and is not counted.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stable_tanaka"
WRITES = {"open", "write_text", "write_bytes"}
WRITER = ("experiments.py", "_write_files")


def _write_calls(tree: ast.AST, where: str = "<module>"):
    """(enclosing function, line) of every write call under ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _write_calls(node, node.name)
            continue
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                getattr(func, "attr", None)
            if name in WRITES:
                yield where, node.lineno
        yield from _write_calls(node, where)


def test_only_the_writer_writes_files():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    calls = {(module.name, where, line)
             for module in modules
             for where, line in _write_calls(ast.parse(
                 module.read_text(encoding="utf-8")))}
    assert [c for c in calls if c[:2] != WRITER] == []
    assert any(c[:2] == WRITER for c in calls)  # the test sees its open


def test_the_scan_sees_each_kind_of_write():
    source = ("def f(p):\n    open(p)\n    p.open()\n"
              "    p.write_text('x')\n    p.write_bytes(b'x')\n"
              "    p.read_text()\n")
    assert [line for _, line in _write_calls(ast.parse(source))] == \
        [2, 3, 4, 5]
