import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / (
    "bench_record.py")
_spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

#: a comment line
LIMIT = 700


class Grid:
    """Class docstring."""

    def span(self):
        """Function
        docstring."""
        text = """a string
that is no docstring"""
        return (len(text),
                # a comment inside the bracket
                math.pi)
'''


def test_code_lines_drop_docstrings_comments_and_blanks():
    # import, LIMIT, class, def, the string's two lines, and the return's
    # two lines with code
    assert bench_record.code_lines(SOURCE) == 8


def test_code_lines_of_one_statement():
    assert bench_record.code_lines("x = 1\n") == 1
    assert bench_record.code_lines('"""Only a docstring."""\n') == 0
    assert bench_record.code_lines("") == 0
