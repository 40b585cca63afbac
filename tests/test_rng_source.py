"""Only ``pathsim.path_rng`` builds a random generator.

This pins the Determinism contract: every Monte Carlo draw comes from a
Philox stream keyed by (seed, path index). Every module of the package is
parsed, and each mention of ``np.random`` or ``numpy.random``, each call
of ``default_rng`` and each import of ``random`` is found with the
function it sits in. An annotation belongs to its function, so
``path_rng``'s return type is its own.
"""

import ast

from source_scan import called_name, package_sites, sites

MAKER = ("pathsim.py", "path_rng")
NUMPY = {"np", "numpy"}


def _is_random_module(name: str) -> bool:
    return name == "random" or name.split(".")[:2] == ["numpy", "random"]


def _is_random_use(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "random" and isinstance(node.value, ast.Name) \
            and node.value.id in NUMPY
    if isinstance(node, ast.Call):
        return called_name(node) == "default_rng"
    if isinstance(node, ast.Import):
        return any(_is_random_module(alias.name) for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return _is_random_module(module) or (
            module == "numpy"
            and any(alias.name == "random" for alias in node.names))
    return False


def _random_uses(tree: ast.AST):
    """(enclosing function, line) of every random-source use under
    ``tree``."""
    return sites(tree, _is_random_use)


def test_only_path_rng_builds_a_generator():
    uses = package_sites(_random_uses)
    assert [u for u in uses if u[:2] != MAKER] == []
    assert any(u[:2] == MAKER for u in uses)  # the test sees path_rng's


def test_the_scan_sees_each_random_source():
    source = ("import random\n"
              "import numpy.random as npr\n"
              "from numpy import random\n"
              "from numpy.random import Philox\n"
              "from random import choice\n"
              "def f(seed, rng) -> np.random.Generator:\n"
              "    numpy.random.rand\n"
              "    default_rng(seed)\n"
              "    rng.default_rng()\n"
              "    import numpy as np, os\n"
              "    rng.random()\n"
              "    random_state = np.float64(1)\n")
    assert sorted(_random_uses(ast.parse(source)), key=lambda u: u[1]) == [
        ("<module>", 1), ("<module>", 2), ("<module>", 3), ("<module>", 4),
        ("<module>", 5), ("f", 6), ("f", 7), ("f", 8), ("f", 9)]
