"""Only the one writer, ``experiments._write_files``, writes files.

Every module of the package is parsed, and each call of ``open``, of an
``.open`` method or of ``write_text`` / ``write_bytes`` is found with the
function it sits in. Reading goes through ``read_text`` and is not counted.
"""

import ast

from source_scan import called_name, package_sites, sites

WRITES = {"open", "write_text", "write_bytes"}
WRITER = ("experiments.py", "_write_files")


def _write_calls(tree: ast.AST):
    """(enclosing function, line) of every write call under ``tree``."""
    return sites(tree, lambda node: called_name(node) in WRITES)


def test_only_the_writer_writes_files():
    calls = package_sites(_write_calls)
    assert [c for c in calls if c[:2] != WRITER] == []
    assert any(c[:2] == WRITER for c in calls)  # the test sees its open


def test_the_scan_sees_each_kind_of_write():
    source = ("def f(p):\n    open(p)\n    p.open()\n"
              "    p.write_text('x')\n    p.write_bytes(b'x')\n"
              "    p.read_text()\n")
    assert [line for _, line in _write_calls(ast.parse(source))] == \
        [2, 3, 4, 5]
