"""Every name the demos and the README quick start import from
stable_tanaka resolves, and so does every name in each ``__all__``.
Every ``__all__`` name is also used somewhere other than the tests, and
the README's command lines and flags match the command-line parser.

The sources are read with ``ast``; no demo or command runs, so an API
removal shows up here in well under a second.
"""

import argparse
import ast
import importlib
import re
import shlex
from pathlib import Path

import pytest

from stable_tanaka.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["stable_tanaka", "stable_tanaka.params", "stable_tanaka.spectral",
           "stable_tanaka.kernel", "stable_tanaka.pathsim",
           "stable_tanaka.localtime", "stable_tanaka.experiments"]
# public names that only the tests call, each with the reason it stays
TEST_ONLY = {
    # the direct-quadrature oracle that acceptance criterion 2 checks the
    # spectral generator against
    "generator_quadrature",
}


def _sources():
    for demo in sorted((ROOT / "demos").glob("*.py")):
        yield demo.name, demo.read_text(encoding="utf-8")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme,
                                         re.S)):
        yield f"README-python-{i}", block


def _package_imports(source):
    """(module, name) for each import from stable_tanaka; name None for a
    plain ``import stable_tanaka.x``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "stable_tanaka":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "stable_tanaka":
                    yield alias.name, None


SOURCES = dict(_sources())


def test_sources_found():
    assert len([n for n in SOURCES if n.endswith(".py")]) >= 7
    assert any(list(_package_imports(src)) for n, src in SOURCES.items()
               if n.startswith("README"))


@pytest.mark.parametrize("where", sorted(SOURCES))
def test_imported_names_resolve(where):
    missing = []
    for module, name in _package_imports(SOURCES[where]):
        try:
            mod = importlib.import_module(module)
        except ImportError:
            missing.append(module)
            continue
        if name is not None and not hasattr(mod, name):
            missing.append(f"{module}.{name}")
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def _used_names():
    """Every identifier read or looked up as an attribute outside tests/:
    in src/ and bench/ code, the demos and the README's python blocks.
    Import lines and ``__all__`` strings do not count, so a re-export or a
    definition alone is not a use."""
    files = [p for d in ("src", "bench") for p in (ROOT / d).rglob("*.py")
             if "tests" not in p.relative_to(ROOT).parts]
    texts = [p.read_text(encoding="utf-8") for p in files]
    used = set()
    for source in texts + list(SOURCES.values()):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_all_names_used_outside_tests():
    used = _used_names()
    unused = [f"{module}.{name}" for module in MODULES
              for name in importlib.import_module(module).__all__
              if name not in used and name not in TEST_ONLY]
    assert unused == []
    assert TEST_ONLY.isdisjoint(used)


def test_private_names_read_in_src():
    # a module-level private name that no code in src/ reads is kept only
    # for its tests, or for nothing
    defined, read = {}, set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = path.relative_to(ROOT).as_posix()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert len(defined) > 10
    assert sorted(f"{where}:{name}" for name, where in defined.items()
                  if name not in read) == []


def test_pair_tile_read_only_by_the_tile_rules():
    # the tile budget sets the height of every dense block through
    # kernel._row_tiles alone; _run_sums packs ragged runs by it and
    # localtime._TILE_POINTS is derived from it
    readers = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                owner = top.name
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                owner = ast.unparse(top.targets[0] if isinstance(
                    top, ast.Assign) else top.target)
            else:
                owner = type(top).__name__
            for node in ast.walk(top):
                if (isinstance(node, ast.Name) and node.id == "_PAIR_TILE"
                        and isinstance(node.ctx, ast.Load)) or (
                        isinstance(node, ast.Attribute)
                        and node.attr == "_PAIR_TILE"):
                    readers.add(f"{path.name}:{owner}")
    assert readers and readers <= {"kernel.py:_row_tiles",
                                   "localtime.py:_run_sums",
                                   "localtime.py:_TILE_POINTS"}, readers


README = (ROOT / "README.md").read_text(encoding="utf-8")
README_COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for block in re.findall(r"```sh\n(.*?)```", README, re.S)
    for line in block.splitlines() if line.startswith("stable-tanaka ")]


def test_readme_commands_found():
    assert {argv[0] for argv in README_COMMANDS} \
        == {"run", "density", "simulate", "localtime"}


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_command_parses(argv):
    # parse only: argparse exits on an unknown subcommand, flag or value
    build_parser().parse_args(argv)


def test_readme_flags_exist():
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    options = {flag for parser in sub.choices.values()
               for action in parser._actions for flag in action.option_strings}
    flags = set(re.findall(r"`(--[a-z][a-z0-9-]*)", README))
    assert flags and flags <= options, sorted(flags - options)
