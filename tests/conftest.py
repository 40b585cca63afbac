"""Pytest hooks shared by the test modules."""

import platform

import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__


def _machine_lines() -> list:
    """numpy's version and the SIMD targets it dispatches to, and the C
    library's version: the byte pins hold per numpy version and dispatch
    target, and timings move with both, so a red pin or a slow run read
    from a log can be put down to the machine that ran it."""
    targets = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    libc, version = platform.libc_ver()
    return [f"numpy {np.__version__}, SIMD dispatch targets: "
            f"{' '.join(targets) or 'none, baseline only'}",
            f"C library: {libc or 'unknown'} {version}".rstrip()]


def pytest_report_header(config):
    return _machine_lines()


def pytest_terminal_summary(terminalreporter):
    # the header is not printed under -q; the summary is
    for line in _machine_lines():
        terminalreporter.write_line(line)
