"""The walk behind the package's source guards: every module under
``src/stable_tanaka`` is parsed, and each node that a guard's predicate
picks is found with the function it sits in.

A helper module, not a test file: pytest collects nothing here. The
guards that use it are ``test_file_writes.py``, ``test_rng_source.py``
and the thread scan of ``test_pool.py``. It also counts the package's
code lines (``code_lines``); ``python tests/source_scan.py`` prints the
count of each module and the total.
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


def code_lines(path) -> int:
    """The code lines of a Python file: every line but blank ones,
    comment-only ones and those of a module, class or function docstring
    (found by ``ast``)."""
    text = Path(path).read_text(encoding="utf-8")
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for number, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#")
               and number not in docs)


def package_sites(find) -> set:
    """(module path in the package, enclosing function, line) of every
    site that ``find(tree)`` yields for the package's modules."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 8
    return {(module.relative_to(PACKAGE).as_posix(), where, line)
            for module in modules
            for where, line in find(ast.parse(
                module.read_text(encoding="utf-8")))}


if __name__ == "__main__":
    counts = {module.relative_to(PACKAGE).as_posix(): code_lines(module)
              for module in sorted(PACKAGE.rglob("*.py"))}
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
