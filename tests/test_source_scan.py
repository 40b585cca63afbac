"""The code-line counter of ``source_scan``."""

from source_scan import code_lines

SNIPPET = '''"""A module docstring
over two lines."""

# a comment line
import math  # a trailing comment keeps its line


class Box:
    """One line."""

    size = 1

    def area(self):
        """Two
        lines."""
        text = """not a docstring:
        an assignment's string is code"""
        return math.pi * self.size, text


async def wait():
    return None
'''


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET, encoding="utf-8")
    # import, class, size, def, the string's 2 lines, return, async def,
    # return
    assert code_lines(path) == 9

