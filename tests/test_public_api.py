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
