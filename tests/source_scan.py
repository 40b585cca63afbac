"""The walk behind the package's source guards: every module under
``src/stable_tanaka`` is parsed, and each node that a guard's predicate
picks is found with the function it sits in.

A helper module, not a test file: pytest collects nothing here. The
guards that use it are ``test_file_writes.py``, ``test_rng_source.py``
and the thread scan of ``test_pool.py``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stable_tanaka"


def called_name(node: ast.AST):
    """The name that a call calls, ``f`` of ``f(x)`` and of ``obj.f(x)``;
    None for a node that is not a call."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.id if isinstance(func, ast.Name) else \
        getattr(func, "attr", None)


def sites(tree: ast.AST, matches, where: str = "<module>"):
    """(enclosing function, line) of every node under ``tree`` for which
    ``matches(node)`` is true. A function's decorators and annotations
    belong to the function."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from sites(node, matches, node.name)
            continue
        if matches(node):
            yield where, node.lineno
        yield from sites(node, matches, where)


def package_sites(find) -> set:
    """(module path in the package, enclosing function, line) of every
    site that ``find(tree)`` yields for the package's modules."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 8
    return {(module.relative_to(PACKAGE).as_posix(), where, line)
            for module in modules
            for where, line in find(ast.parse(
                module.read_text(encoding="utf-8")))}
